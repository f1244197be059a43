//! The session scope end to end: a fault plan belongs to the thread
//! that installed it and the lanes of the regions that thread runs. A
//! thread that installed nothing is never injected into and never uses
//! up another thread's decisions, whatever layer — the DD driver's step
//! aborts, the DMA engine under a metered kernel, the store's fsync —
//! the plan's sites sit in.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::ddrun::run_dd_md;
use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::water::{theta_hoh, water_box, D_OH};
use sw_gromacs::sw26010::CoreGroup;
use sw_gromacs::swgmx::{run_rma, CpePairList, PackageLayout, PackedSystem, RmaConfig};
use swfault::{FaultPlan, Site};
use swstore::{Store, StoreOptions};

/// Everything observable about one pass over the three layers: final
/// trajectory bits and recovery counters of a 4-rank DD run, force bits
/// and simulated cycles of a metered Rma call, fsync retries of a store
/// commit (`None`: the commit gave up).
#[derive(Debug, PartialEq)]
struct Outcome {
    dd_bits: Vec<u32>,
    dd_rollbacks: u64,
    dd_io_retries: u64,
    dd_step_executions: u64,
    rma_bits: Vec<u32>,
    rma_cycles: u64,
    fsync_retries: Option<u32>,
}

fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("swscope-session-{tag}-{}", std::process::id()))
}

fn work(tag: &str) -> Outcome {
    let params = NbParams {
        r_cut: 0.7,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    let mut sys = water_box(60, 300.0, 91);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let dd = run_dd_md(&mut sys, 4, &params, &cs, 0.002, 20, 10).expect("bounded recovery");

    let kernel_sys = water_box(300, 300.0, 2024);
    let list = PairList::build(&kernel_sys, 0.7, ListKind::Half);
    let psys = PackedSystem::build(
        &kernel_sys,
        list.clustering.clone(),
        PackageLayout::Transposed,
    );
    let half = CpePairList::build(&kernel_sys, &list);
    let cg = CoreGroup::with_threads(2);
    let rma = run_rma(&psys, &half, &params, &cg, RmaConfig::MARK);

    let dir = store_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).expect("open store");
    let fsync_retries = store.commit_with_retry(8, &[vec![7u8; 64]]).ok();
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        dd_bits: sys
            .pos
            .iter()
            .chain(&sys.vel)
            .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect(),
        dd_rollbacks: dd.rollbacks,
        dd_io_retries: dd.checkpoint_io_retries,
        dd_step_executions: dd.step_executions,
        rma_bits: rma
            .forces
            .iter()
            .flat_map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()])
            .collect(),
        rma_cycles: rma.total.cycles,
        fsync_retries,
    }
}

/// Tells X that Y is done — also when Y is done because it failed.
struct Done<'a>(&'a AtomicBool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn an_unscoped_thread_is_untouched_by_a_neighbours_plan() {
    let solo = work("solo");
    assert_eq!(
        (solo.dd_rollbacks, solo.dd_io_retries, solo.fsync_retries),
        (0, 0, Some(0))
    );

    // X installs a plan that fires at every decision of three sites and
    // keeps working under it until Y is done; Y starts once the plan is
    // in place.
    let installed = Barrier::new(2);
    let y_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let x = s.spawn(|| {
            let scope = swfault::install(FaultPlan {
                step_abort: 1.0,
                dma_fail: 1.0,
                store_fsync_fail: 1.0,
                ..FaultPlan::with_seed(19)
            });
            installed.wait();
            let mut faulted = work("x");
            while !y_done.load(Ordering::Acquire) {
                faulted = work("x");
            }
            (faulted, scope.finish())
        });
        installed.wait();
        {
            let _done = Done(&y_done);
            for _ in 0..3 {
                assert!(!swfault::enabled());
                assert_eq!(work("y"), solo, "Y beside X's rate-1.0 plan");
            }
        }

        // X itself got all of it: every new step rolled back (and still
        // landed on the same bits), every DMA retried, every fsync
        // failed until the commit gave up.
        let (faulted, log) = x.join().unwrap();
        assert_eq!(faulted.dd_bits, solo.dd_bits);
        assert_eq!(faulted.dd_rollbacks, 20);
        assert!(faulted.dd_step_executions > solo.dd_step_executions);
        assert_eq!(faulted.rma_bits, solo.rma_bits);
        assert!(faulted.rma_cycles > solo.rma_cycles);
        assert_eq!(faulted.fsync_retries, None);
        for site in [Site::StepAbort, Site::DmaFail, Site::StoreFsyncFail] {
            assert!(log.count(site) > 0, "{site:?}");
        }
    });
}
