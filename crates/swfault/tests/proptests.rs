//! Property tests for the fault plane's core guarantee: the injected
//! schedule is a pure function of (seed, site, lane, seq) — identical
//! across repeated runs and across host-thread interleavings.
//!
//! A fault scope belongs to the thread that installed it, so the
//! properties run side by side on the harness's threads without seeing
//! one another; the lane threads a case starts are handed the scope's
//! handle, as the lane executor hands it to its lanes.

use proptest::prelude::*;
use swfault::{FaultLog, FaultPlan, Site};

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::collection::vec(0.0f64..=1.0f64, Site::ALL.len()),
    )
        .prop_map(|(seed, rates)| FaultPlan {
            seed,
            dma_fail: rates[0],
            dma_partial: rates[1],
            cpe_hang: rates[2],
            ldm_fail: rates[3],
            net_drop: rates[4],
            net_delay: rates[5],
            net_corrupt: rates[6],
            io_error: rates[7],
            kernel_fault: rates[8],
            step_abort: rates[9],
            store_torn_write: rates[10],
            store_bit_flip: rates[11],
            store_fsync_fail: rates[12],
            rank_kill: rates[13],
            sched_job_drop: rates[14],
            lane_panic: rates[15],
            scripted: Vec::new(),
        })
}

/// Drive `draws` decisions per site on the MPE lane plus `draws` per
/// site on four CPE lanes spread across real threads, and return the
/// canonical log.
fn drive(plan: FaultPlan, draws: usize, shuffle: u64) -> FaultLog {
    let scope = swfault::install(plan);
    // MPE-lane draws interleaved with threaded CPE-lane draws: the
    // spawn order below varies with `shuffle`, the schedule must not.
    let mut lanes: Vec<usize> = vec![1, 5, 9, 13];
    lanes.rotate_left((shuffle % 4) as usize);
    let plane = swfault::handle();
    std::thread::scope(|s| {
        for lane in lanes {
            let plane = &plane;
            s.spawn(move || {
                let _plan = plane.enter();
                let _lane = swprof::scope::Who::enter_lane(Some(lane));
                for site in Site::ALL {
                    for _ in 0..draws {
                        swfault::decide(site);
                    }
                }
            });
        }
        for site in Site::ALL {
            for _ in 0..draws {
                swfault::decide(site);
            }
        }
    });
    scope.finish()
}

proptest! {
    /// Same plan, same per-lane work → bit-identical injected-event
    /// log, regardless of how the host interleaves the lane threads.
    #[test]
    fn schedule_is_deterministic_across_runs_and_interleavings(
        plan in arb_plan(),
        draws in 1usize..40,
        shuffle in any::<u64>(),
    ) {
        let a = drive(plan.clone(), draws, 0);
        let b = drive(plan.clone(), draws, shuffle);
        prop_assert_eq!(&a, &b);
        // Payloads replay too, not just fire/no-fire verdicts.
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            prop_assert_eq!(x.payload, y.payload);
        }
    }

    /// An all-off plan never injects no matter the seed, and a
    /// rate-1.0 site fires on every decision.
    #[test]
    fn rate_extremes_are_exact(seed in any::<u64>(), draws in 1usize..64) {
        let log = drive(FaultPlan::with_seed(seed), draws, 0);
        prop_assert_eq!(log.total(), 0);

        let plan = FaultPlan { io_error: 1.0, ..FaultPlan::with_seed(seed) };
        let log = drive(plan, draws, 0);
        // 5 lanes (MPE + 4 CPEs) x draws decisions each.
        prop_assert_eq!(log.count(Site::IoError), 5 * draws as u64);
        prop_assert_eq!(log.total(), 5 * draws as u64);
    }

    /// Scripted one-shots fire at exactly their (site, lane, seq)
    /// coordinate, independent of the rates.
    #[test]
    fn scripted_events_fire_exactly_once(
        seed in any::<u64>(),
        seq in 0u64..32,
    ) {
        let plan = FaultPlan::with_seed(seed)
            .one_shot(Site::KernelFault, None, seq);
        let log = drive(plan, 32, 0);
        prop_assert_eq!(log.count(Site::KernelFault), 1);
        let ev = log.events.iter().find(|e| e.site == Site::KernelFault).unwrap();
        prop_assert_eq!(ev.seq, seq);
        prop_assert_eq!(ev.lane, None);
    }
}
