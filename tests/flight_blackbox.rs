//! Acceptance tests for the flight recorder: a scripted rank kill during
//! a durable run must leave a black-box dump next to the swstore
//! generation chain, and the dump's abort events must match the kill
//! site (which rank, which step); a runner's dump must hold its own run
//! and nothing another thread of the process records.

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::durable::{run_dd_md_durable, DurableConfig};
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::recovery::FaultTolerantRunner;
use swfault::{FaultPlan, Site};
use swprof::json::{parse, Value};
use swprof::tel;

#[test]
fn rank_kill_leaves_a_blackbox_dump_matching_the_abort_site() {
    let dir = std::env::temp_dir().join(format!("flight-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let p = NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    let cfg = DurableConfig::new(4, 14, 4);
    // Kill original rank 2 at its 10th liveness poll (step 10) — the
    // same script the durable bit-identity test uses.
    let session = tel::Session::begin(0xb1ac);
    let scope = swfault::install(FaultPlan::with_seed(5).one_shot(Site::RankKill, Some(2), 10));
    let mut sys = water_box(60, 300.0, 33);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let rep = run_dd_md_durable(&mut sys, &dir, &cfg, &p, &cs).unwrap();
    drop(scope.finish());
    drop(session.finish());
    assert_eq!(rep.rank_kills, 1);

    // The black box landed next to the generation chain.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("blackbox-rankkill-step") && n.ends_with(".json"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one kill dump: {dumps:?}");
    assert_eq!(dumps[0], "blackbox-rankkill-step10.json");

    // And its tail records the abort site: rank 2 died at step 10.
    let doc = parse(&std::fs::read_to_string(dir.join(&dumps[0])).unwrap()).unwrap();
    let events = doc
        .get("events")
        .and_then(Value::as_arr)
        .expect("events array");
    assert!(!events.is_empty());
    let kills: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| {
            e.get("kind").and_then(Value::as_str) == Some("abort")
                && e.get("label").and_then(Value::as_str) == Some("rank_kill")
        })
        .map(|e| {
            (
                e.get("a").and_then(Value::as_num).unwrap() as u64,
                e.get("b").and_then(Value::as_num).unwrap() as u64,
            )
        })
        .collect();
    assert_eq!(
        kills,
        vec![(2, 10)],
        "dump records (rank, step) of the kill"
    );

    // The dump counts every record its ring took, evicted or not.
    let recorded = doc.get("recorded").and_then(Value::as_num).unwrap();
    assert!(recorded >= events.len() as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A runner's rollback dump holds its own run and nothing else: not
/// what its thread recorded before the runner existed, and not what
/// another thread records meanwhile — while the records the runner
/// makes stay out of the ring its thread had entered.
#[test]
fn a_blackbox_holds_only_its_own_run() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let dir = std::env::temp_dir().join(format!("flight-own-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    let (outer, report) = std::thread::scope(|s| {
        s.spawn(|| {
            let ring = tel::flight::Ring::new();
            let _armed = ring.enter();
            tel::flight::record("test", "thread_b", 0, 0);
            started.wait();
            while !stop.load(Ordering::Relaxed) {
                tel::flight::record("test", "thread_b", 0, 0);
            }
        });
        let ran = s.spawn(|| {
            let outer = tel::flight::Ring::new();
            let _armed = outer.enter();
            tel::flight::record("test", "before_run", 0, 0);
            started.wait();
            // Steps 1-14 draw step-abort decisions 0-13: decision 14
            // aborts step 15, which rolls back to the step-10 checkpoint.
            let faults =
                swfault::install(FaultPlan::with_seed(1).one_shot(Site::StepAbort, None, 14));
            let config = EngineConfig {
                nstxout: 0,
                ..EngineConfig::paper(Version::Other)
            };
            let engine = Engine::new(water_box(16, 300.0, 35), config);
            let mut runner = FaultTolerantRunner::new_durable(engine, 10, &dir).unwrap();
            let report = runner.run_until(20).unwrap().clone();
            drop(faults.finish());
            (outer.snapshot(), report)
        });
        let ran = ran.join();
        stop.store(true, Ordering::Relaxed);
        ran.expect("thread A")
    });
    assert_eq!(report.rollbacks, 1);
    let outer: Vec<_> = outer.iter().map(|e| e.label).collect();
    assert_eq!(
        outer,
        ["before_run"],
        "the runner's records stay in its ring"
    );

    let doc = parse(&std::fs::read_to_string(dir.join("blackbox-rollback.json")).unwrap()).unwrap();
    let events = doc.get("events").and_then(Value::as_arr).unwrap();
    let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).unwrap().to_string();
    let labels: Vec<String> = events.iter().map(|e| field(e, "label")).collect();
    assert!(
        !labels.iter().any(|l| l == "before_run" || l == "thread_b"),
        "foreign records in the dump: {labels:?}"
    );
    assert_eq!(events[0].get("seq").and_then(Value::as_num), Some(0.0));
    let last = events.last().unwrap();
    assert_eq!(
        (field(last, "kind"), field(last, "label")),
        ("abort".into(), "step_rollback".into())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
