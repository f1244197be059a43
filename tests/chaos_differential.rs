//! Differential recovery: for every engine version, a run under an
//! aggressive (but kernel-fault-free) fault plan must converge to the
//! *bit-identical* final state of a fault-free run. Faults perturb only
//! simulated time — DMA retries, CPE respawns, LDM stalls, checkpoint
//! I/O retries — and step aborts roll back to a checkpoint whose replay
//! is exact, so physics must be unchanged down to the last mantissa bit.
//!
//! Kernel faults stay disabled here by design: the `Ori` fallback
//! changes floating-point summation order, which is graceful
//! degradation, not silent corruption — the soak test covers it.
//!
//! A fault scope belongs to the thread that installed it and the lanes
//! of the regions that thread runs, so the two tests here run side by
//! side: each one's clean reference run is clean, and each one's log
//! holds its own injections only.

use sw_gromacs::mdsim::nonbonded::NbEnergies;
use sw_gromacs::mdsim::water::water_box_equilibrated;
use sw_gromacs::mdsim::System;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::recovery::{FaultTolerantRunner, RecoveryReport};
use sw_gromacs::swgmx::BackendSel;
use swfault::{FaultPlan, Site};

const STEPS: usize = 60;

fn chaos_seed() -> u64 {
    std::env::var("SWFAULT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFAB)
}

fn run(version: Version, plan: Option<FaultPlan>) -> (System, NbEnergies, RecoveryReport, u64) {
    run_on(version, BackendSel::Metered, plan)
}

fn run_on(
    version: Version,
    backend: BackendSel,
    plan: Option<FaultPlan>,
) -> (System, NbEnergies, RecoveryReport, u64) {
    let scope = plan.map(swfault::install);
    let sys = water_box_equilibrated(96, 300.0, 7);
    let engine = Engine::new(
        sys,
        EngineConfig {
            backend,
            ..EngineConfig::paper(version)
        },
    );
    let cp_every = 2 * engine.config().nstlist;
    let mut runner = FaultTolerantRunner::new(engine, cp_every).expect("initial checkpoint");
    runner.run_until(STEPS).expect("run survives the plan");
    let aborts = scope.map_or(0, |s| s.finish().count(Site::StepAbort));
    let (engine, report) = runner.into_parts();
    (engine.sys, engine.energies, report, aborts)
}

#[test]
fn faulted_runs_converge_bit_identically_for_every_version() {
    let seed = chaos_seed();
    // Every site except KernelFault, at rates well above moderate so
    // each version's run sees real recovery work.
    let plan = FaultPlan {
        kernel_fault: 0.0,
        step_abort: 0.08,
        io_error: 0.10,
        ..FaultPlan::moderate(seed)
    };

    for version in Version::ALL {
        let (clean_sys, clean_e, clean_report, _) = run(version, None);
        assert_eq!(clean_report.rollbacks, 0);
        assert_eq!(clean_report.step_executions as usize, STEPS);

        let (faulty_sys, faulty_e, faulty_report, aborts) = run(version, Some(plan.clone()));
        assert_eq!(
            faulty_report.rollbacks,
            aborts,
            "{}: every injected abort rolls back exactly once",
            version.name()
        );
        assert!(
            !faulty_report.degraded,
            "{}: kernel faults are disabled in this plan",
            version.name()
        );
        if aborts > 0 {
            assert!(
                faulty_report.step_executions as usize > STEPS,
                "{}: rollbacks force replayed steps",
                version.name()
            );
        }

        for (i, (a, b)) in clean_sys.pos.iter().zip(&faulty_sys.pos).enumerate() {
            assert_eq!(
                a.x.to_bits(),
                b.x.to_bits(),
                "{}: pos[{i}].x",
                version.name()
            );
            assert_eq!(
                a.y.to_bits(),
                b.y.to_bits(),
                "{}: pos[{i}].y",
                version.name()
            );
            assert_eq!(
                a.z.to_bits(),
                b.z.to_bits(),
                "{}: pos[{i}].z",
                version.name()
            );
        }
        for (i, (a, b)) in clean_sys.vel.iter().zip(&faulty_sys.vel).enumerate() {
            assert_eq!(
                a.x.to_bits(),
                b.x.to_bits(),
                "{}: vel[{i}].x",
                version.name()
            );
            assert_eq!(
                a.y.to_bits(),
                b.y.to_bits(),
                "{}: vel[{i}].y",
                version.name()
            );
            assert_eq!(
                a.z.to_bits(),
                b.z.to_bits(),
                "{}: vel[{i}].z",
                version.name()
            );
        }
        assert_eq!(
            clean_e.total().to_bits(),
            faulty_e.total().to_bits(),
            "{}: final energies must match bit-for-bit",
            version.name()
        );
    }
}

#[test]
fn native_backend_faulted_runs_converge_bit_identically() {
    // On the native backend a CPE hang targets a *real* pool thread:
    // the lane walks the bounded respawn loop before its body runs, so
    // even an aggressive hang rate must leave the physics untouched.
    let plan = FaultPlan {
        kernel_fault: 0.0,
        cpe_hang: 0.05,
        step_abort: 0.08,
        io_error: 0.10,
        ..FaultPlan::moderate(chaos_seed())
    };

    let (clean_sys, clean_e, clean_report, _) = run_on(Version::Other, BackendSel::Native, None);
    assert_eq!(clean_report.rollbacks, 0);

    let (faulty_sys, faulty_e, faulty_report, aborts) =
        run_on(Version::Other, BackendSel::Native, Some(plan));
    assert_eq!(faulty_report.rollbacks, aborts);
    assert!(!faulty_report.degraded);

    for (i, (a, b)) in clean_sys.pos.iter().zip(&faulty_sys.pos).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "native: pos[{i}].x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "native: pos[{i}].y");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "native: pos[{i}].z");
    }
    for (i, (a, b)) in clean_sys.vel.iter().zip(&faulty_sys.vel).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "native: vel[{i}].x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "native: vel[{i}].y");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "native: vel[{i}].z");
    }
    assert_eq!(
        clean_e.total().to_bits(),
        faulty_e.total().to_bits(),
        "native: final energies must match bit-for-bit"
    );

    // And across backends on the clean runs: the cluster kernels'
    // FP order differs, so we expect *different* bits but the same
    // physics to differential tolerance — pin the energy band here so
    // a silent native regression cannot hide behind self-consistency.
    let (_, metered_e, _, _) = run_on(Version::Other, BackendSel::Metered, None);
    let rel = (metered_e.total() - clean_e.total()).abs() / metered_e.total().abs();
    assert!(
        rel < 1e-3,
        "native vs metered engine energy drifted: {} vs {}",
        clean_e.total(),
        metered_e.total()
    );
}
