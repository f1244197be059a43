//! Checkpoint/rollback recovery tests for the domain-decomposed MD
//! driver: injected step aborts and I/O faults must be survived with
//! *bit-identical* final state vs. a fault-free run.
//!
//! A fault scope belongs to the thread that installed it: the clean
//! reference runs here draw no decision from a neighbouring test's plan,
//! so scripted decision indices mean what they say at any test
//! parallelism.

use mdsim::constraints::ConstraintSet;
use mdsim::ddrun::run_dd_md;
use mdsim::nonbonded::{Coulomb, NbParams};
use mdsim::water::{theta_hoh, water_box, D_OH};
use swfault::{FaultPlan, Site};

fn params() -> NbParams {
    NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    }
}

#[test]
fn rollback_recovery_is_bit_exact() {
    let p = params();
    let run = |plan: Option<FaultPlan>| {
        let scope = plan.map(swfault::install);
        let mut sys = water_box(60, 300.0, 91);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let report = run_dd_md(&mut sys, 4, &p, &cs, 0.002, 40, 10).unwrap();
        let log = scope.map(|s| s.finish());
        (sys, report, log)
    };

    let (clean_sys, clean_report, _) = run(None);
    assert_eq!(clean_report.step_executions, 40);
    assert_eq!(clean_report.rollbacks, 0);

    let (faulty_sys, faulty_report, log) = run(Some(FaultPlan {
        step_abort: 0.15,
        io_error: 0.20,
        ..FaultPlan::with_seed(13)
    }));
    let log = log.unwrap();
    assert!(log.count(Site::StepAbort) > 0, "plan must inject aborts");
    assert_eq!(faulty_report.rollbacks, log.count(Site::StepAbort));
    assert!(
        faulty_report.step_executions > 40,
        "rollbacks force replayed steps"
    );
    assert!(faulty_report.checkpoint_io_retries > 0);

    // The recovery contract: bit-identical final dynamic state.
    for (a, b) in clean_sys.pos.iter().zip(&faulty_sys.pos) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    for (a, b) in clean_sys.vel.iter().zip(&faulty_sys.vel) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    assert_eq!(
        clean_report.energies.total().to_bits(),
        faulty_report.energies.total().to_bits()
    );
}

#[test]
fn scripted_abort_rolls_back_to_checkpoint_boundary() {
    let p = params();
    // StepAbort decision `seq` is drawn after step `seq + 1` completes,
    // so seq 13 aborts step 14: rollback lands on the step-10
    // checkpoint and steps 11..=14 replay (shielded from re-aborting).
    let scope = swfault::install(FaultPlan::with_seed(5).one_shot(Site::StepAbort, None, 13));
    let mut sys = water_box(30, 300.0, 92);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let report = run_dd_md(&mut sys, 2, &p, &cs, 0.002, 20, 10).unwrap();
    drop(scope);
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.step_executions, 20 + 4, "steps 11..=14 replay");
}

#[test]
fn checkpoint_io_faults_are_retried_transparently() {
    let scope = swfault::install(FaultPlan::with_seed(8).one_shot(Site::IoError, None, 0));
    let sys = water_box(10, 300.0, 93);
    let cp = mdsim::checkpoint::Checkpoint::capture(&sys, 0);
    // First write attempt fails; the driver-level retry succeeds.
    let mut buf = Vec::new();
    assert_eq!(
        cp.write_to(&mut buf).unwrap_err().kind(),
        std::io::ErrorKind::Interrupted
    );
    assert!(buf.is_empty(), "failed write must not touch the writer");
    let mut buf = Vec::new();
    cp.write_to(&mut buf).unwrap();
    let loaded = mdsim::checkpoint::Checkpoint::read_from(&mut buf.as_slice()).unwrap();
    drop(scope);
    assert_eq!(loaded, cp);
}
