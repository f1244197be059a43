//! Acceptance test for the always-on flight recorder: a scripted rank
//! kill during a durable run must leave a black-box dump next to the
//! swstore generation chain, and the dump's abort events must match the
//! kill site (which rank, which step).
//!
//! The flight ring is process-global, so this test lives in its own
//! integration binary (its own process) rather than sharing one with
//! the other telemetry tests.

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::durable::{run_dd_md_durable, DurableConfig};
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
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

    // The recorder kept running *through* the recovery: the in-memory
    // ring has seen at least everything the dump froze.
    assert!(tel::flight::recorded() >= events.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
