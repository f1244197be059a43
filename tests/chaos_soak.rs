//! Chaos soak: every engine version survives 200 steps under a moderate
//! fault plan — DMA retries, CPE hangs, LDM contention, checkpoint I/O
//! errors, step aborts with rollback, and (for the CPE versions) forced
//! kernel faults driving graceful degradation to the `Ori` kernel.
//!
//! The fault scope of a chaos run reaches only the thread that installed
//! it and the lanes of its regions; nothing else in the process is
//! injected into.
//!
//! The seed is overridable with `SWFAULT_CHAOS_SEED` (CI sweeps a small
//! set of fixed seeds); every assertion here is seed-independent.

use std::io::Write as _;

use sw_gromacs::mdsim::water::water_box_equilibrated;
use sw_gromacs::sw26010::params::cycles_to_ns;
use sw_gromacs::sw26010::trace;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::recovery::FaultTolerantRunner;
use swfault::{FaultPlan, Site};

fn chaos_seed() -> u64 {
    std::env::var("SWFAULT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Dump a Chrome trace of the profiled run so a failing CI job can
/// upload it as an artifact; best-effort, never fails the test.
fn export_trace(profile: &swprof::Profile, name: &str) {
    let dir = std::path::Path::new("target/chaos");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let doc = swprof::export::chrome_trace(profile, cycles_to_ns(1));
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.trace.json"))) {
        let _ = f.write_all(doc.as_bytes());
    }
}

#[test]
fn every_version_survives_200_chaotic_steps() {
    let seed = chaos_seed();
    let mut injected_total = 0u64;

    for version in Version::ALL {
        // Moderate background fault rates, plus three scripted kernel
        // faults on the first three force dispatches: enough consecutive
        // hits to push every CPE version over the degradation threshold.
        let plan = FaultPlan::moderate(seed)
            .one_shot(Site::KernelFault, None, 0)
            .one_shot(Site::KernelFault, None, 1)
            .one_shot(Site::KernelFault, None, 2);
        let profile_session = swprof::Session::begin();
        let scope = swfault::install(plan);

        let sys = water_box_equilibrated(96, 300.0, 42);
        let engine = Engine::new(sys, EngineConfig::paper(version));
        let cp_every = 2 * engine.config().nstlist;
        let mut runner = FaultTolerantRunner::new(engine, cp_every).expect("initial checkpoint");
        let report = runner
            .run_until(200)
            .expect("soak run survives the fault plan")
            .clone();
        let log = scope.finish();
        let (engine, _) = runner.into_parts();

        assert_eq!(
            engine.step_index(),
            200,
            "{}: did not finish",
            version.name()
        );
        assert!(
            report.step_executions >= 200,
            "{}: executed {} < 200 steps",
            version.name(),
            report.step_executions
        );
        assert_eq!(
            report.rollbacks,
            log.count(Site::StepAbort),
            "{}: every injected abort rolls back exactly once",
            version.name()
        );
        assert!(
            engine.energies.total().is_finite(),
            "{}: energies blew up: {:?}",
            version.name(),
            engine.energies
        );
        assert!(
            engine
                .sys
                .pos
                .iter()
                .all(|p| { p.x.is_finite() && p.y.is_finite() && p.z.is_finite() }),
            "{}: non-finite positions after chaos",
            version.name()
        );

        // Graceful degradation: the three consecutive scripted kernel
        // faults must trip the CPE versions into the Ori fallback; the
        // Ori engine has no faster kernel to lose and never draws.
        if version == Version::Ori {
            assert!(!report.degraded, "Ori cannot degrade");
            assert_eq!(report.kernel_faults, 0);
        } else {
            assert!(
                report.degraded,
                "{}: 3 consecutive kernel faults must degrade",
                version.name()
            );
            assert!(report.kernel_faults >= 3);
            assert_eq!(log.count(Site::KernelFault), report.kernel_faults);
        }

        injected_total += log.total();
        drop(engine); // flush cache metrics into the live session
        export_trace(
            &profile_session.finish(),
            &format!("soak-{}-{seed:#x}", version.name()),
        );
    }
    assert!(
        injected_total > 0,
        "a moderate plan over 4x200 steps must inject something"
    );

    // Recovery coherence: a traced window under the same background
    // plan (no kernel faults, so the Mark kernel stays engaged) must be
    // clean under the swcheck trace pass — no access pair an edge
    // leaves unordered, no dirty drops, no Bit-Map drift, and every
    // abort leaves no visible state behind (SWC105).
    let trace_session = trace::Session::begin();
    let scope = swfault::install(FaultPlan::moderate(seed));
    let sys = water_box_equilibrated(96, 300.0, 42);
    let engine = Engine::new(sys, EngineConfig::paper(Version::Other));
    let mut runner = FaultTolerantRunner::new(engine, 10).expect("initial checkpoint");
    runner.run_until(20).expect("traced chaos window");
    drop(scope);
    let events = trace_session.finish();
    assert!(!events.is_empty(), "traced window captured nothing");
    let contract = sw_gromacs::swgmx::check::Variant::Rma.contract();
    let violations = swcheck::hb::detect(&contract, &events);
    assert!(
        violations.is_empty(),
        "chaos run violates recovery coherence: {violations:?}"
    );
}
