//! Sessions through the lane prologue: a fault plan, a trace capture
//! and a profile opened on one thread see that thread and the lanes of
//! the regions it spawns — on pool workers too — and nothing of what
//! other threads of the process spawn at the same time. Each test runs
//! two sessioned workloads alone, then at once beside a thread with no
//! session, and requires every result to be the one it got alone.

use std::fmt::Debug;
use std::sync::Barrier;

use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::simd::meter;
use sw26010::trace::{self, Event, EventKind};
use swfault::FaultPlan;

/// Ten metered regions with uneven lanes, touching every substrate
/// layer a session listens to: LDM ledger, DMA engine, shared writes,
/// the cycle meter. Returns the simulated wall time of each region.
fn regions(cg: &CoreGroup, salt: u64) -> Vec<u64> {
    (0..10)
        .map(|_| {
            let out = cg.spawn("kernel", |ctx| {
                ctx.ldm.reserve("buf", 1024).unwrap();
                DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, 512, true);
                trace::shared_write(1, ctx.id * 4, ctx.id * 4 + 4);
                meter::scalar_flops(&mut ctx.perf, ctx.id as u64 * 10 + salt);
            });
            out.region.cycles
        })
        .collect()
}

fn alone_and_together<T: PartialEq + Debug + Send>(sessioned: impl Fn(u64) -> T + Sync) {
    let alone = [sessioned(1), sessioned(1000)];
    let start = Barrier::new(3);
    let together = std::thread::scope(|s| {
        let a = s.spawn(|| (start.wait(), sessioned(1)).1);
        let b = s.spawn(|| (start.wait(), sessioned(1000)).1);
        start.wait();
        let clean = regions(&CoreGroup::with_threads(2), 0);
        assert_eq!(clean, regions(&CoreGroup::with_threads(1), 0));
        [a.join().unwrap(), b.join().unwrap()]
    });
    assert_eq!(together, alone);
}

#[test]
fn concurrent_fault_plans_each_inject_what_they_inject_alone() {
    // Lanes on a two-thread pool: `(site, lane, seq)` determinism holds
    // through the prologue, and the bystander's clean cycles (checked in
    // `alone_and_together`) show it drew none of these decisions.
    alone_and_together(|seed| {
        let scope = swfault::install(FaultPlan {
            cpe_hang: 0.05,
            dma_fail: 0.10,
            ldm_fail: 0.10,
            ..FaultPlan::with_seed(seed)
        });
        let cycles = regions(&CoreGroup::with_threads(2), seed);
        let log = scope.finish();
        assert!(log.total() > 0, "the rates above should inject something");
        (cycles, log)
    });
}

/// `events` with the ids the process hands out (ledgers) zeroed; their
/// epochs are the capture's own.
fn renumbered(mut events: Vec<Event>) -> Vec<Event> {
    for event in &mut events {
        if let EventKind::LdmReserve { ldm, .. } = &mut event.kind {
            *ldm = 0;
        }
    }
    events
}

#[test]
fn concurrent_trace_sessions_each_capture_what_they_capture_alone() {
    // One host thread per core group, so the sink order is the lane
    // order and captures compare event for event.
    alone_and_together(|salt| {
        let session = trace::Session::begin();
        regions(&CoreGroup::with_threads(1), salt);
        let events = renumbered(session.finish());
        assert_eq!(events.len(), 10 * (2 + 64 * 3));
        events
    });
}

#[test]
fn concurrent_profiles_each_record_what_they_record_alone() {
    alone_and_together(|salt| {
        let session = swprof::Session::begin();
        regions(&CoreGroup::with_threads(2), salt);
        let profile = session.finish();
        // Per-track order is exact at any thread count; the interleaving
        // of tracks in the sink is the host schedule's.
        let per_track: Vec<Vec<swprof::SpanEvent>> = profile
            .tracks()
            .into_iter()
            .map(|t| profile.track_events(t).cloned().collect())
            .collect();
        assert_eq!(per_track.len(), 64);
        assert_eq!(profile.spans.last().map(|e| e.epoch), Some(10));
        (per_track, profile.metrics)
    });
}
