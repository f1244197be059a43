//! The host threads the program starts live exactly as long as their
//! owner: an engine's lane workers as long as the engine, a store's
//! commit barrier no longer than the store.
//!
//! One test, in a binary of its own: it counts the threads of the
//! process, which other tests running beside it would change.

use std::time::{Duration, Instant};

use sw_gromacs::mdsim::water::water_box;
use sw_gromacs::swgmx::backend::BackendSel;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::recovery::FaultTolerantRunner;

/// Threads of this process, as the kernel counts them.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a count")
}

/// `join` returns when the thread has signalled its exit, which can be
/// a moment before the kernel has taken it off the process's list: a
/// joined thread is given a short while to leave `Threads:`.
#[cfg(target_os = "linux")]
fn assert_threads(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while process_threads() != expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(process_threads(), expected, "{what}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_hundred_engines_leave_the_thread_count_where_it_started() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let before = process_threads();
    for i in 0..100 {
        let backend = [BackendSel::Native, BackendSel::Metered][i % 2];
        let config = EngineConfig {
            backend,
            nstxout: 0,
            ..EngineConfig::paper(Version::Other)
        };
        let mut engine = Engine::new(water_box(16, 300.0, i as u64), config);
        // Its list side and its force side ran on one set of workers:
        // the stepping thread plus `host − 1` parked ones (64 lanes
        // never use more than 64 threads).
        engine.step();
        assert_threads(
            before + host.min(64) - 1,
            &format!("{backend:?} engine {i}, {before} threads before it"),
        );
    }
    assert_threads(before, "every worker was joined");

    // A durable runner commits behind its steps, on a thread that its
    // store joins: generations 0 and 10 here, the second still in
    // flight when `run_until` comes to wait for it.
    let root = std::env::temp_dir().join(format!("executor-lifetime-{}", std::process::id()));
    for i in 0..100 {
        let config = EngineConfig {
            nstxout: 0,
            ..EngineConfig::paper(Version::Other)
        };
        let engine = Engine::new(water_box(16, 300.0, i as u64), config);
        let mut runner = FaultTolerantRunner::new_durable(engine, 10, &root.join(i.to_string()))
            .expect("a fresh store");
        runner.run_until(20).expect("twenty steps");
        assert_eq!(runner.report().generations_persisted, 2);
        drop(runner);
        assert_threads(before, &format!("durable runner {i}"));
    }
    let _ = std::fs::remove_dir_all(&root);
}
