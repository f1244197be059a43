//! The `md_*` workloads: `Engine::step` on an equilibrated water box.
//!
//! Untraced, the harness times each `Engine::step` call. Traced, it also
//! runs a *shadow step* — the same public calls in the same order as
//! `Engine::step`, each inside a span — beside the engine and requires
//! the shadow trajectory to end bit-identical to the engine's, which
//! proves the spans time the computation the engine does.

use std::path::Path;
use std::time::Instant;

use mdsim::constraints::ConstraintSet;
use mdsim::integrate;
use mdsim::nonbonded::{Coulomb, NbEnergies, NbParams};
use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;
use mdsim::water::{theta_hoh, water_box, D_OH};
use rand::SeedableRng;
use sw26010::cg::CoreGroup;
use swgmx::backend::{AnyBackend, BackendSel, KernelBackend, KernelInput};
use swgmx::check::Variant;
use swgmx::cpelist::CpePairList;
use swgmx::engine::{Engine, EngineConfig, Version};
use swgmx::package::{PackageLayout, PackedSystem};
use swgmx::pairgen;
use swserve::trajectory_checksum;

use crate::outcome::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// 1334 molecules: the smallest round box (3.42 nm edge) on which
/// `Engine::new` leaves the paper's 1.0 nm cutoff unclamped.
pub const N_MOL: usize = 1334;

/// Steepest-descent iterations of the set-up. `water_box_equilibrated`
/// runs 150; the largest force stops falling after about 30 and the
/// dynamics that follow are the same (no SHAKE failure in 300 steps), so
/// the set-up can be repeated within a run.
const SD_ITERS: usize = 30;

/// Steps run before timing starts: one full pair-list cycle, so the
/// thread pool, the allocator and the caches are warm and the timed loop
/// starts on a rebuild step.
const WARMUP_STEPS: usize = 10;

/// The timed loop never stops short of this, however slow the host.
const MIN_STEPS: usize = 100;

/// The engine pass of a traced run is this long at least: p95 needs ten
/// samples beyond it.
const TRACED_ENGINE_STEPS: usize = 200;

/// MD trajectory nanoseconds per step (dt = 0.002 ps).
const NS_PER_STEP: f64 = 2e-6;

pub struct MdWorkload {
    pub name: &'static str,
    pub backend: BackendSel,
    pub n_mol: usize,
    /// Shadow steps of a traced run: a whole number of pair-list cycles.
    pub shadow_steps: usize,
}

pub struct Prepared {
    pub sys: System,
    pub lattice_s: f64,
    pub equilibrate_s: f64,
}

/// Lattice water box, constrained steepest descent, re-thermalise: the
/// recipe of `mdsim::water::water_box_equilibrated` with [`SD_ITERS`].
pub fn prepare(n_mol: usize, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let mut sys = water_box(n_mol, 300.0, seed);
    let lattice_s = t0.elapsed().as_secs_f64();
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let params = NbParams {
        r_cut: 0.9f32.min(0.3 * sys.pbc.lengths().x),
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    mdsim::minimize::steepest_descent(&mut sys, &params, Some(&cs), SD_ITERS, 1_000.0, 0.01);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    sys.thermalize(300.0, &mut rng);
    cs.project_velocities(&mut sys);
    Prepared {
        sys,
        lattice_s,
        equilibrate_s: t0.elapsed().as_secs_f64(),
    }
}

pub fn engine_config(backend: BackendSel) -> EngineConfig {
    EngineConfig {
        backend,
        nstxout: 0,
        ..EngineConfig::paper(Version::Other)
    }
}

/// A step fails when its energy is not finite or SHAKE left a bond more
/// than 1e-3 nm off.
fn step_failed(energies: &NbEnergies, cs: &ConstraintSet, sys: &System) -> bool {
    !energies.total().is_finite() || cs.max_violation(sys) > 1e-3
}

/// Step `engine`, timing each step, until both `min_steps` and `seconds`
/// are reached and the step count is a whole number of pair-list cycles.
/// Counts attempted and failed steps into `out`; `after_step` sees the
/// engine after each step with the number of steps taken so far.
fn timed_steps(
    engine: &mut Engine,
    min_steps: usize,
    seconds: f64,
    out: &mut Outcome,
    mut after_step: impl FnMut(usize, &Engine),
) -> Vec<f64> {
    let cs = ConstraintSet::rigid_water(&engine.sys, D_OH, theta_hoh());
    let nstlist = engine.config().nstlist;
    let mut step_ms = Vec::new();
    let start = Instant::now();
    while step_ms.len() < min_steps
        || start.elapsed().as_secs_f64() < seconds
        || !step_ms.len().is_multiple_of(nstlist)
    {
        let t = Instant::now();
        let energies = engine.step();
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.failed += step_failed(&energies, &cs, &engine.sys) as u64;
        after_step(step_ms.len(), engine);
    }
    out.attempted += step_ms.len() as u64;
    step_ms
}

pub fn run_untraced(w: &MdWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t0 = Instant::now();
        let mut e = Engine::new(prepare(w.n_mol, seed).sys, engine_config(w.backend));
        for _ in 0..WARMUP_STEPS {
            e.step();
        }
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("SETUP_REPS > 0");
    out.set_median("setup_s", &setups);

    let step_ms = timed_steps(&mut engine, MIN_STEPS, seconds, &mut out, |_, _| {});

    let steps_per_s = step_ms.len() as f64 / (step_ms.iter().sum::<f64>() / 1e3);
    out.set("ops_per_s", steps_per_s);
    out.set_median("op_ms_p50", &step_ms);
    out.note(format!(
        "ns_per_day {:.4} (MD trajectory ns per wall-clock day = ops_per_s x {NS_PER_STEP} ns x 86400)",
        steps_per_s * NS_PER_STEP * 86_400.0
    ));
    let t = engine.sys.temperature(engine.sys.dof_rigid_water());
    out.check(
        format!("temperature {t:.1} K within 150..600 K"),
        (150.0..600.0).contains(&t),
    );
    out.check(
        format!(
            "{} pairs inside the cutoff on the last step",
            engine.energies.pairs_within_cutoff
        ),
        engine.energies.pairs_within_cutoff > 0,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// `Engine::step` for `Version::Other` (rigid water, Berendsen, no PME,
/// no trajectory output), spelled out over the public layer calls.
pub struct Shadow {
    pub sys: System,
    cfg: EngineConfig,
    backend: AnyBackend,
    cg: CoreGroup,
    cs: ConstraintSet,
    list: Option<PairList>,
    step: usize,
    pub counts: ShadowCounts,
}

/// Work counted at the layer boundaries of the shadow step.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ShadowCounts {
    pub rebuilds: u64,
    pub pairgen_sim_cycles: u64,
    pub force_sim_cycles: u64,
    pub cluster_pairs: u64,
    pub cpelist_builds: u64,
    pub cpelist_entries: u64,
    pub shake_iters: u64,
    pub shake_failures: u64,
}

impl Shadow {
    /// `cfg` is the configuration an `Engine` over `sys` reports, i.e.
    /// with the cutoff already clamped to the box.
    pub fn new(sys: System, cfg: EngineConfig) -> Self {
        assert!(
            cfg.version == Version::Other
                && cfg.constraints
                && cfg.pme_grid.is_none()
                && cfg.nstxout == 0,
            "the shadow step mirrors one engine configuration"
        );
        Self {
            cs: ConstraintSet::rigid_water(&sys, D_OH, theta_hoh()),
            sys,
            backend: AnyBackend::of(cfg.backend),
            cfg,
            cg: CoreGroup::new(),
            list: None,
            step: 0,
            counts: ShadowCounts::default(),
        }
    }

    pub fn step(&mut self, tr: &mut Tracer) -> NbEnergies {
        let seq = self.step as u64;
        let root = tr.open("engine.step", seq);

        if self.step.is_multiple_of(self.cfg.nstlist) {
            let gen = tr.time("pairgen", seq, || {
                pairgen::generate_pairlist(&self.sys, self.cfg.rlist, ListKind::Half, &self.cg, 2)
            });
            self.counts.rebuilds += 1;
            self.counts.pairgen_sim_cycles += gen.perf.cycles;
            self.counts.cluster_pairs = gen.list.n_pairs() as u64;
            self.list = Some(gen.list);
        }
        let list = self.list.as_ref().expect("built on step 0");

        let psys = tr.time("package", seq, || {
            PackedSystem::build(
                &self.sys,
                list.clustering.clone(),
                PackageLayout::Transposed,
            )
        });
        let cpelist = tr.time("cpelist", seq, || CpePairList::build(&self.sys, list));
        self.counts.cpelist_builds += 1;
        self.counts.cpelist_entries = cpelist.n_entries() as u64;

        let result = tr.time("force", seq, || {
            self.backend.run(
                Variant::Rma,
                KernelInput {
                    psys: &psys,
                    list: &cpelist,
                    params: &self.cfg.params,
                },
            )
        });
        self.counts.force_sim_cycles += result.total.cycles;
        for (i, f) in result.forces.iter().enumerate() {
            self.sys.force[i] = *f;
        }

        let old_pos = self.sys.pos.clone();
        tr.time("integrate", seq, || {
            integrate::leapfrog_step(&mut self.sys, self.cfg.dt)
        });
        match tr.time("constraints", seq, || {
            self.cs.apply(&mut self.sys, &old_pos, self.cfg.dt)
        }) {
            Some(iters) => self.counts.shake_iters += iters as u64,
            None => self.counts.shake_failures += 1,
        }
        let t_ref = self
            .cfg
            .t_ref
            .expect("the paper configuration is thermostatted");
        tr.time("integrate", seq, || {
            let t_now = self.sys.temperature(self.sys.dof_rigid_water());
            integrate::berendsen_scale(&mut self.sys, self.cfg.dt, 0.1, t_ref, t_now);
        });

        self.sys.clear_forces();
        self.step += 1;
        tr.close(root);
        result.energies
    }
}

pub fn run_traced(w: &MdWorkload, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let prepared = prepare(w.n_mol, seed);
    out.set("water.lattice_s", prepared.lattice_s);
    out.set("water.equilibrate_s", prepared.equilibrate_s);

    // One pass, two trajectories from the same state: the engine, timed
    // per step with tracing off, and after each of its pair-list cycles
    // the shadow step over the same cycle, in spans. Alternating keeps
    // both equally warm and under the same machine noise. The engine
    // runs on alone past the last shadow step, long enough for a p95.
    let mut engine = Engine::new(prepared.sys.clone(), engine_config(w.backend));
    let cfg = *engine.config();
    let mut tr = Tracer::new();
    let mut shadow = Shadow::new(prepared.sys, cfg);
    let mut engine_at_shadow_end = None;
    let engine_ms = timed_steps(
        &mut engine,
        (WARMUP_STEPS + TRACED_ENGINE_STEPS).max(w.shadow_steps),
        0.5 * seconds,
        &mut out,
        |steps, engine| {
            if steps <= w.shadow_steps && steps.is_multiple_of(cfg.nstlist) {
                for _ in 0..cfg.nstlist {
                    shadow.step(&mut tr);
                }
            }
            if steps == w.shadow_steps {
                engine_at_shadow_end = Some((
                    trajectory_checksum(&engine.sys),
                    engine.breakdown.cycles("Neighbor search"),
                    engine.breakdown.cycles("Force"),
                    engine.total_ms(),
                ));
            }
        },
    );
    let (engine_checksum, engine_search_cycles, engine_force_cycles, engine_sim_ms) =
        engine_at_shadow_end.expect("the engine runs at least the shadow steps");
    drop(engine);

    out.check(
        "shadow-step trajectory checksum equals Engine's",
        trajectory_checksum(&shadow.sys) == engine_checksum,
    );
    out.check(
        "sim cycles equal across the untraced and traced pass",
        shadow.counts.pairgen_sim_cycles == engine_search_cycles
            && shadow.counts.force_sim_cycles == engine_force_cycles,
    );
    out.check(
        "SHAKE converged on every shadow step",
        shadow.counts.shake_failures == 0,
    );

    // Both passes are compared over the same steps, past the warm-up.
    let compared = (w.shadow_steps - WARMUP_STEPS) as f64;
    let timed = |s: &crate::trace::Span| s.seq >= WARMUP_STEPS as u64;
    let layers = tr.self_times(timed);
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |t| t.ms());
    let shadow_ms: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && timed(s))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    let engine_same_steps_ms: f64 = engine_ms[WARMUP_STEPS..w.shadow_steps].iter().sum();
    let rebuilds = layers.get("pairgen").map_or(0, |t| t.count).max(1) as f64;

    out.set("pairgen.ms_per_rebuild", layer_ms("pairgen") / rebuilds);
    out.set("pairgen.cluster_pairs", shadow.counts.cluster_pairs as f64);
    out.set(
        "pairgen.sim_cycles",
        shadow.counts.pairgen_sim_cycles as f64,
    );
    out.set("package.ms_per_step", layer_ms("package") / compared);
    out.set("cpelist.ms_per_step", layer_ms("cpelist") / compared);
    out.set("cpelist.entries", shadow.counts.cpelist_entries as f64);
    out.set(
        "cpelist.builds_per_list",
        shadow.counts.cpelist_builds as f64 / shadow.counts.rebuilds as f64,
    );
    out.set(
        match w.backend {
            BackendSel::Native => "native.force_ms_per_step",
            BackendSel::Metered => "metered.force_ms_per_step",
        },
        layer_ms("force") / compared,
    );
    out.set("integrate.ms_per_step", layer_ms("integrate") / compared);
    out.set(
        "constraints.ms_per_step",
        layer_ms("constraints") / compared,
    );
    out.set(
        "constraints.iters_per_step",
        shadow.counts.shake_iters as f64 / w.shadow_steps as f64,
    );

    let layer_sum_ms: f64 = [
        "pairgen",
        "package",
        "cpelist",
        "force",
        "integrate",
        "constraints",
    ]
    .iter()
    .map(|l| layer_ms(l))
    .sum();
    let coverage = layer_sum_ms / engine_same_steps_ms;
    out.set("engine.coverage", coverage);
    if !(0.9..=1.1).contains(&coverage) {
        out.note(format!(
            "WARNING engine.coverage {coverage:.3} is outside 0.9-1.1: the layers no longer sum to the step; spans must move inside the program"
        ));
    }
    out.set(
        "engine.other_ms_per_step",
        (engine_same_steps_ms - layer_sum_ms) / compared,
    );
    let overhead = shadow_ms / engine_same_steps_ms - 1.0;
    out.set("trace.overhead_share", overhead);
    if overhead >= 0.05 {
        out.note(format!(
            "WARNING trace.overhead_share {overhead:.3} is 5% or more: the spans distort what they time"
        ));
    }
    out.set("trace.spans", tr.spans().len() as f64);

    let steady = &engine_ms[WARMUP_STEPS..];
    out.set_median("engine.step_ms_p50", steady);
    out.set("engine.step_ms_p95", stats::tail(steady, 95));
    out.set(
        "engine.ns_per_day",
        steady.len() as f64 / (steady.iter().sum::<f64>() / 1e3) * NS_PER_STEP * 86_400.0,
    );
    out.set(
        "engine.sim_ms_per_step",
        engine_sim_ms / w.shadow_steps as f64,
    );

    if let Err(e) = tr.write(trace_path, w.name, "step") {
        out.check(format!("span file {}: {e}", trace_path.display()), false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shadow step is `Engine::step`: a 375-particle box ends 20
    /// steps on the same bits, positions and virtual cycles, on both
    /// backends.
    #[test]
    fn shadow_step_is_bit_identical_to_engine() {
        for backend in [BackendSel::Native, BackendSel::Metered] {
            let sys = prepare(125, 2026).sys;
            let mut engine = Engine::new(sys.clone(), engine_config(backend));
            let mut shadow = Shadow::new(sys, *engine.config());
            let mut tr = Tracer::new();
            for step in 0..20 {
                let e = engine.step();
                let s = shadow.step(&mut tr);
                assert_eq!(
                    e.total().to_bits(),
                    s.total().to_bits(),
                    "{backend:?} step {step}"
                );
            }
            assert_eq!(
                trajectory_checksum(&engine.sys),
                trajectory_checksum(&shadow.sys),
                "{backend:?}"
            );
            assert_eq!(engine.sys.vel, shadow.sys.vel, "{backend:?}");
            assert_eq!(
                shadow.counts.pairgen_sim_cycles,
                engine.breakdown.cycles("Neighbor search")
            );
            assert_eq!(
                shadow.counts.force_sim_cycles,
                engine.breakdown.cycles("Force")
            );
            assert_eq!(shadow.counts.rebuilds, 2);
            assert_eq!(shadow.counts.cpelist_builds, 20);
            // 20 root spans, each the parent of its layer spans.
            let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
            assert_eq!(roots, 20);
            assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        }
    }

    #[test]
    fn same_seed_same_box() {
        let a = prepare(64, 7).sys;
        let b = prepare(64, 7).sys;
        assert_eq!(trajectory_checksum(&a), trajectory_checksum(&b));
        assert_eq!(a.vel, b.vel);
        assert_ne!(
            trajectory_checksum(&a),
            trajectory_checksum(&prepare(64, 8).sys)
        );
    }
}
