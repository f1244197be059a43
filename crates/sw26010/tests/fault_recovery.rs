//! Fault-recovery wiring tests for the substrate: DMA retry, CPE
//! straggler respawn, and LDM reservation stalls.
//!
//! All tests here install a [`swfault::FaultScope`], which reaches the
//! installing thread and the lanes of the regions it runs — the tests
//! run side by side, and beside cost-model tests that assert exact
//! fault-free cycle counts.

use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::ldm::Ldm;
use sw26010::perf::PerfCounters;
use sw26010::trace;
use swfault::{FaultPlan, Site};

#[test]
fn dma_retry_adds_cycles_but_not_traffic() {
    let mut clean = PerfCounters::new();
    DmaEngine::transfer(&mut clean, Dir::Get, 1024, true);

    let scope = swfault::install(FaultPlan {
        dma_fail: 1.0, // every attempt fails until the retry cap
        ..FaultPlan::with_seed(5)
    });
    let mut faulty = PerfCounters::new();
    DmaEngine::transfer(&mut faulty, Dir::Get, 1024, true);
    let log = scope.finish();

    // The retries cost simulated time...
    assert!(faulty.cycles > clean.cycles);
    assert_eq!(
        log.count(Site::DmaFail),
        swfault::retry::MAX_ATTEMPTS as u64
    );
    // ...but move no extra data: the logical transfer happened once.
    assert_eq!(faulty.dma_transactions, clean.dma_transactions);
    assert_eq!(faulty.dma_bytes, clean.dma_bytes);
}

#[test]
fn dma_partial_costs_less_than_full_failure() {
    let run = |plan: FaultPlan| {
        let scope = swfault::install(plan);
        let mut p = PerfCounters::new();
        DmaEngine::transfer_shared(&mut p, Dir::Put, 2048, true);
        drop(scope);
        p.cycles
    };
    let clean = run(FaultPlan::default());
    // One scripted partial stall vs one scripted outright failure at
    // the same decision coordinate.
    let partial = run(FaultPlan::with_seed(9).one_shot(Site::DmaPartial, None, 0));
    let full = run(FaultPlan::with_seed(9).one_shot(Site::DmaFail, None, 0));
    assert!(clean < partial, "partial stall must cost time");
    // A partial transfer wastes a fraction of the streaming time; an
    // outright failure wastes all of it (same backoff payload would
    // make these equal only if the fraction drew 1.0).
    assert!(partial <= full);
}

#[test]
fn cpe_hang_respawns_emit_abort_and_charge_straggler_timeout() {
    let cg = CoreGroup::new();
    let clean = cg.spawn("test", |ctx| {
        sw26010::simd::meter::scalar_flops(&mut ctx.perf, 100);
        ctx.id
    });

    let session = trace::Session::begin();
    let scope = swfault::install(
        // CPE 7 hangs once on its first spawn; everyone else is clean.
        FaultPlan::with_seed(3).one_shot(Site::CpeHang, Some(7), 0),
    );
    let faulty = cg.spawn("test", |ctx| {
        sw26010::simd::meter::scalar_flops(&mut ctx.perf, 100);
        ctx.id
    });
    let log = scope.finish();
    let events = session.finish();

    // The respawned instance still produced its result.
    assert_eq!(faulty.results, clean.results);
    assert_eq!(log.count(Site::CpeHang), 1);
    // The hung CPE's timeline absorbed the straggler timeout, which
    // dominates the region (max over CPEs grows).
    assert!(faulty.per_cpe[7].cycles > clean.per_cpe[7].cycles);
    assert!(faulty.region.cycles > clean.region.cycles);
    // The aborted attempt is visible to swcheck and attributed to the
    // hung CPE, with no earlier side effects from that attempt.
    let aborts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, trace::EventKind::Abort { .. }))
        .collect();
    assert_eq!(aborts.len(), 1);
    assert_eq!(aborts[0].cpe, Some(7));
    assert_eq!(
        aborts[0].kind,
        trace::EventKind::Abort { reason: "cpe-hang" }
    );
}

#[test]
fn ldm_contention_stalls_but_reservation_succeeds() {
    let scope = swfault::install(FaultPlan::with_seed(1).one_shot(Site::LdmFail, None, 0));
    let mut ldm = Ldm::new();
    ldm.reserve("cache", 4096).unwrap();
    drop(scope);
    assert_eq!(ldm.in_use(), 4096);
    assert!(ldm.stall_cycles() > 0);

    // Without a plan: no stalls, bit-identical ledger behavior.
    let mut clean = Ldm::new();
    clean.reserve("cache", 4096).unwrap();
    assert_eq!(clean.stall_cycles(), 0);
    assert_eq!(clean.in_use(), ldm.in_use());
}

#[test]
fn faulted_spawn_is_deterministic_in_simulated_time() {
    let cg = CoreGroup::new();
    let run = || {
        let scope = swfault::install(FaultPlan {
            cpe_hang: 0.05,
            dma_fail: 0.10,
            ldm_fail: 0.10,
            ..FaultPlan::with_seed(77)
        });
        let out = cg.spawn("test", |ctx| {
            ctx.ldm.reserve("buf", 1024).unwrap();
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, 512, true);
            sw26010::simd::meter::scalar_flops(&mut ctx.perf, (ctx.id as u64) * 10);
        });
        let log = scope.finish();
        (out.region.cycles, log)
    };
    let (c1, l1) = run();
    let (c2, l2) = run();
    assert_eq!(c1, c2, "same plan, same work: same simulated wall time");
    assert_eq!(l1, l2, "same plan, same work: same injected schedule");
    assert!(l1.total() > 0, "the rates above should inject something");
}
