//! End-to-end crash recovery: a real process kill (`abort()`, no
//! destructors) mid-run, restart from the on-disk `swstore` chain, and
//! bit-identical resumption — plus permanent rank death with elastic
//! re-decomposition.
//!
//! The kill test re-executes this test binary as a child process
//! (`SWSTORE_CRASH_CHILD=1` selects the child role) so the abort takes
//! out a whole OS process, exactly like a node failure would: whatever
//! was not durably committed is gone, and recovery may rely only on
//! what `Store::commit`'s temp-fsync-rename protocol put on disk.
//!
//! The runner tests do the same to a `FaultTolerantRunner`, which leaves
//! each commit's barrier in flight behind its steps
//! (`SWSTORE_CRASH_CHILD=new_durable|mid_quantum` picks where the child
//! dies): once while the starting generation may still be on its way to
//! disk, once after `run_until` has returned and it may not be.
//!
//! Knobs (all optional, used by the CI recovery job):
//! - `SWSTORE_CRASH_SEED`: water-box seed, so the matrix covers
//!   distinct trajectories and store contents.
//! - `SWSTORE_CRASH_DIR`: where store directories are created (kept as
//!   a CI artifact on failure).
//!
//! A fault scope belongs to the thread that installed it, so the runs
//! here that want no faults install nothing, and the rank-kill test's
//! plan reaches no other test.

use std::path::{Path, PathBuf};
use std::process::Command;

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::durable::{run_dd_md_durable, DurableConfig, DurableRunReport, DT};
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
use sw_gromacs::mdsim::System;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::recovery::FaultTolerantRunner;
use swcheck::recovery::{audit, RecoveryAudit};
use swfault::{FaultPlan, Site};

const N_RANKS: usize = 4;
const EPOCH_INTERVAL: u64 = 4;
const CRASH_AT: u64 = 10; // between the epoch-8 and epoch-12 commits
const N_STEPS: u64 = 20;
const N_MOL: usize = 60;

fn seed() -> u64 {
    std::env::var("SWSTORE_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn store_root() -> PathBuf {
    std::env::var("SWSTORE_CRASH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir())
}

fn store_dir(tag: &str) -> PathBuf {
    store_root().join(format!("crash-recovery-{tag}-{:x}", seed()))
}

fn params() -> NbParams {
    NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    }
}

fn fresh_system() -> (System, ConstraintSet) {
    let sys = water_box(N_MOL, 300.0, seed());
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    (sys, cs)
}

fn durable_run(dir: &Path, n_steps: u64) -> (System, DurableRunReport) {
    let (mut sys, cs) = fresh_system();
    let cfg = DurableConfig::new(N_RANKS, n_steps, EPOCH_INTERVAL);
    let report =
        run_dd_md_durable(&mut sys, dir, &cfg, &params(), &cs).expect("durable run survives");
    (sys, report)
}

fn assert_bits_equal(a: &System, b: &System, what: &str) {
    for (x, y) in a.pos.iter().zip(&b.pos).chain(a.vel.iter().zip(&b.vel)) {
        assert_eq!(x.x.to_bits(), y.x.to_bits(), "{what}: state diverged");
        assert_eq!(x.y.to_bits(), y.y.to_bits(), "{what}");
        assert_eq!(x.z.to_bits(), y.z.to_bits(), "{what}");
    }
}

fn assert_finite(sys: &System) {
    assert!(
        sys.pos
            .iter()
            .chain(&sys.vel)
            .all(|v| v.x.is_finite() && v.y.is_finite() && v.z.is_finite()),
        "non-finite physics after recovery"
    );
}

fn assert_clean_audit(report: &DurableRunReport, run: &str) {
    let findings = audit(&RecoveryAudit {
        run,
        coverage: &report.final_coverage,
        chain: &report.chain,
        epoch_interval: report.epoch_interval,
    });
    assert!(findings.is_empty(), "swcheck recovery audit: {findings:?}");
}

/// Child role: run to `CRASH_AT` (past the epoch-8 commit), then die
/// without unwinding. Shows up as a passing no-op when run normally.
#[test]
fn crash_child() {
    if std::env::var("SWSTORE_CRASH_CHILD").is_err() {
        return;
    }
    let dir = store_dir("kill");
    durable_run(&dir, CRASH_AT);
    // No destructors, no flushes: the process is simply gone.
    std::process::abort();
}

#[test]
fn process_kill_then_restart_is_bit_identical() {
    let dir = store_dir("kill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(store_root()).unwrap();

    // Phase 1: a child process runs to step 10 and aborts.
    let exe = std::env::current_exe().unwrap();
    let status = Command::new(&exe)
        .args(["--exact", "crash_child", "--nocapture"])
        .env("SWSTORE_CRASH_CHILD", "1")
        .env("SWSTORE_CRASH_SEED", seed().to_string())
        .env("SWSTORE_CRASH_DIR", store_root())
        .status()
        .expect("spawn child");
    assert!(!status.success(), "child must die by abort, got {status}");

    // Phase 2: restart from disk with a fresh system; the run resumes
    // from the newest committed generation (epoch 8 — step 10's state
    // died with the process) and completes.
    let (resumed_sys, resumed_report) = durable_run(&dir, N_STEPS);
    assert_eq!(
        resumed_report.resumed_from,
        Some(CRASH_AT - CRASH_AT % EPOCH_INTERVAL)
    );
    assert_eq!(resumed_report.step_executions, N_STEPS - 8);

    // Reference: one unfailed run of the same campaign.
    let dir_ref = store_dir("kill-ref");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let (ref_sys, ref_report) = durable_run(&dir_ref, N_STEPS);
    assert_eq!(ref_report.resumed_from, None);

    assert_bits_equal(&resumed_sys, &ref_sys, "restart after process kill");
    assert_finite(&resumed_sys);
    assert_clean_audit(&resumed_report, "process-kill-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

const RUNNER_CP_EVERY: usize = 10;
const RUNNER_CRASH_AT: usize = 15; // mid-quantum, past the step-10 boundary
const RUNNER_STEPS: usize = 30;

fn runner_engine() -> Engine {
    let config = EngineConfig {
        nstxout: 0,
        ..EngineConfig::paper(Version::Other)
    };
    Engine::new(water_box(16, 300.0, seed()), config)
}

/// Child role: die (i) as soon as `new_durable` has returned, its
/// starting generation begun but never waited for, or (ii) in the
/// middle of the quantum after the step-10 boundary, `run_until` having
/// returned. A passing no-op when run normally.
#[test]
fn runner_crash_child() {
    let Ok(role) = std::env::var("SWSTORE_CRASH_CHILD") else {
        return;
    };
    let dir = store_dir(&format!("runner-{role}"));
    let mut runner =
        FaultTolerantRunner::new_durable(runner_engine(), RUNNER_CP_EVERY, &dir).unwrap();
    if role == "mid_quantum" {
        runner.run_until(RUNNER_CRASH_AT).unwrap();
    }
    std::process::abort();
}

#[test]
fn runner_killed_at_either_end_of_the_commit_window_restarts_bit_identically() {
    std::fs::create_dir_all(store_root()).unwrap();
    let mut reference = FaultTolerantRunner::new(runner_engine(), RUNNER_CP_EVERY).unwrap();
    reference.run_until(RUNNER_STEPS).unwrap();
    let (reference, _) = reference.into_parts();

    for role in ["new_durable", "mid_quantum"] {
        let dir = store_dir(&format!("runner-{role}"));
        let _ = std::fs::remove_dir_all(&dir);
        let status = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "runner_crash_child", "--nocapture"])
            .env("SWSTORE_CRASH_CHILD", role)
            .env("SWSTORE_CRASH_SEED", seed().to_string())
            .env("SWSTORE_CRASH_DIR", store_root())
            .status()
            .expect("spawn child");
        assert!(!status.success(), "child must die by abort, got {status}");

        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let has = |epoch: u64| left.contains(&format!("gen-{epoch:016x}.swst"));
        let temps = left.iter().filter(|n| n.starts_with("tmp-")).count();
        let resumable = if role == "new_durable" {
            // (i) Inside the window: generation 0 or the temp file it
            // was to be, and both restart from the state the caller's
            // engine is in.
            assert!(!has(10) && temps <= 1, "{left:?}");
            has(0).then_some(0)
        } else {
            // (ii) Behind it: `run_until` returned, so every generation
            // it counted is under its name and no commit is half done.
            assert!(has(0) && has(10) && temps == 0, "{left:?}");
            Some(10)
        };

        let mut resumed =
            FaultTolerantRunner::new_durable(runner_engine(), RUNNER_CP_EVERY, &dir).unwrap();
        assert_eq!(resumed.report().resumed_from.map(|s| s as usize), resumable);
        resumed.run_until(RUNNER_STEPS).unwrap();
        let (resumed, report) = resumed.into_parts();
        assert_eq!(
            report.step_executions as usize,
            RUNNER_STEPS - resumable.unwrap_or(0)
        );
        assert_bits_equal(&resumed.sys, &reference.sys, role);
        assert_finite(&resumed.sys);
        // The restart swept what the child left half done and its own
        // chain is whole.
        let (store, found) = swstore::Store::open(&dir, swstore::StoreOptions::default()).unwrap();
        assert_eq!(store.chain(), [0, 10, 20], "{role}");
        assert!(
            found.rejected.is_empty() && found.temps_swept == 0,
            "{role}: {found:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn restart_under_a_renamed_store_dir_is_bit_identical() {
    // A campaign's store directory can be renamed or moved between the
    // crash and the restart (staging to another filesystem, an operator
    // reorganizing scratch space): every generation's name is
    // epoch-derived and dir-relative, so recovery must not care where
    // the chain now lives.
    let dir = store_dir("move");
    let moved = store_dir("move-dest");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&moved);
    std::fs::create_dir_all(store_root()).unwrap();

    // Phase 1: run to step 10 in place (in-process "crash": the run
    // stops mid-campaign and the partial chain stays on disk).
    {
        durable_run(&dir, CRASH_AT);
    }

    // The whole store directory moves before the restart.
    std::fs::rename(&dir, &moved).expect("rename store dir");

    // Phase 2: resume from the new location and complete the campaign.
    let (resumed_sys, resumed_report) = durable_run(&moved, N_STEPS);
    assert_eq!(
        resumed_report.resumed_from,
        Some(CRASH_AT - CRASH_AT % EPOCH_INTERVAL)
    );

    // Reference: one unfailed run of the same campaign.
    let dir_ref = store_dir("move-ref");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let (ref_sys, ref_report) = durable_run(&dir_ref, N_STEPS);
    assert_eq!(ref_report.resumed_from, None);

    assert_bits_equal(&resumed_sys, &ref_sys, "restart under renamed dir");
    assert_finite(&resumed_sys);
    assert_clean_audit(&resumed_report, "renamed-dir-restart");
    let _ = std::fs::remove_dir_all(&moved);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

#[test]
fn rank_death_survivors_finish_with_clean_audit() {
    let dir = store_dir("rankdeath");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(store_root()).unwrap();

    // Kill original rank 1 permanently at its 10th liveness poll
    // (step 10, after the epoch-8 commit).
    let plan = FaultPlan::with_seed(seed()).one_shot(Site::RankKill, Some(1), 10);
    let scope = swfault::install(plan);
    let (mut sys, cs) = fresh_system();
    let cfg = DurableConfig::new(N_RANKS, 14, EPOCH_INTERVAL);
    let report = run_dd_md_durable(&mut sys, &dir, &cfg, &params(), &cs)
        .expect("survivors complete the run");
    let log = scope.finish();
    assert_eq!(log.count(Site::RankKill), 1);

    assert_eq!(report.rank_kills, 1);
    assert_eq!(report.redecompositions, 1);
    assert_eq!(report.halo_timeouts, 1);
    assert_eq!(report.live_ranks, N_RANKS - 1);
    assert_finite(&sys);
    assert_clean_audit(&report, "rank-death-elastic");

    // Bit-identity: an unfailed run of the *shrunken* decomposition,
    // started from the same epoch-8 generation, lands on the same bits.
    let (mut store, _) = swstore::Store::open(&dir, swstore::StoreOptions::default()).unwrap();
    let generation = store.load(8).expect("epoch-8 generation still valid");
    let shards: Vec<_> = generation
        .frames
        .iter()
        .map(|f| sw_gromacs::mdsim::checkpoint::RankShard::read_from(&mut f.as_slice()).unwrap())
        .collect();
    let (mut reference, cs_ref) = fresh_system();
    sw_gromacs::mdsim::checkpoint::assemble_shards(&shards, reference.n())
        .unwrap()
        .restore(&mut reference)
        .unwrap();
    for _ in 8..14 {
        reference.clear_forces();
        sw_gromacs::mdsim::ddrun::compute_forces_dd(&mut reference, N_RANKS - 1, &params());
        sw_gromacs::mdsim::integrate::leapfrog_step_constrained(&mut reference, DT, &cs_ref);
    }
    assert_bits_equal(&sys, &reference, "elastic shrink replay");
    let _ = std::fs::remove_dir_all(&dir);
}
