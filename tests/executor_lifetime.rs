//! An engine's host threads live exactly as long as the engine.
//!
//! One test, in a binary of its own: it counts the threads of the
//! process, which other tests running beside it would change.

use sw_gromacs::mdsim::water::water_box;
use sw_gromacs::swgmx::backend::BackendSel;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};

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
        assert_eq!(
            process_threads(),
            before + host.min(64) - 1,
            "{backend:?} engine {i}, {before} threads before it"
        );
    }
    assert_eq!(process_threads(), before, "every worker was joined");
}
