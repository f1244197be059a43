//! Integration tests of the hardware model's composite behaviours: the
//! cost shapes that the paper's optimizations exploit must hold for any
//! kernel built on this substrate.

use sw26010::cache::{CacheGeometry, WriteCache};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::PerfCounters;

/// Aggregation premise (§3.1): moving N bytes in package-sized transfers
/// beats per-element transfers by an order of magnitude.
#[test]
fn aggregation_beats_per_element_transfers() {
    let total = 1 << 20;
    let mut per_element = PerfCounters::new();
    for _ in 0..(total / 8) {
        DmaEngine::transfer(&mut per_element, Dir::Get, 8, true);
    }
    let mut packaged = PerfCounters::new();
    for _ in 0..(total / 80) {
        DmaEngine::transfer(&mut packaged, Dir::Get, 80, true);
    }
    let mut lines = PerfCounters::new();
    for _ in 0..(total / 640) {
        DmaEngine::transfer(&mut lines, Dir::Get, 640, true);
    }
    assert!(packaged.cycles * 5 < per_element.cycles);
    assert!(lines.cycles * 2 < packaged.cycles);
}

/// Deferred-update premise (§3.2): accumulating K updates per element
/// through the write cache costs ~1/K of the direct read-modify-write
/// traffic.
#[test]
fn deferred_update_amortizes_traffic() {
    let geo = CacheGeometry::paper_default(12);
    let n_elems = 256usize;
    let mut copy = vec![0.0f32; n_elems * 12];
    let delta = [1.0f32; 12];

    // Through the cache: K sequential sweeps hit after the first fill.
    let mut cached = PerfCounters::new();
    let mut wc = WriteCache::new(geo);
    for _ in 0..8 {
        for e in 0..n_elems {
            wc.update(&mut cached, &mut copy, e, &delta);
        }
    }
    wc.flush(&mut cached, &mut copy);

    // Direct: every update is a 48 B get + put.
    let mut direct = PerfCounters::new();
    for _ in 0..8 {
        for _ in 0..n_elems {
            DmaEngine::transfer_shared(&mut direct, Dir::Get, 48, true);
            DmaEngine::transfer_shared(&mut direct, Dir::Put, 48, true);
        }
    }
    assert!(
        cached.dma_bytes * 4 < direct.dma_bytes,
        "cached {} B vs direct {} B",
        cached.dma_bytes,
        direct.dma_bytes
    );
    assert!(cached.cycles * 3 < direct.cycles);
}

/// Bit-Map premise (§3.3): when only a few lines are touched, marks cut
/// the copy traffic to the touched subset.
#[test]
fn marks_scale_with_touched_lines_not_copy_size() {
    let geo = CacheGeometry::paper_default(12);
    let n_elems = 8192usize;
    let delta = [1.0f32; 12];
    let run = |marks: bool, touch: usize| -> u64 {
        let mut copy = vec![0.0f32; n_elems * 12];
        let mut perf = PerfCounters::new();
        let mut wc = if marks {
            WriteCache::with_marks(geo, n_elems)
        } else {
            WriteCache::new(geo)
        };
        // Touch distinct, conflict-heavy lines once each (all map to the
        // same set; every access is a miss in both configurations).
        for k in 0..touch {
            wc.update(&mut perf, &mut copy, (k * 256) % n_elems, &delta);
        }
        wc.flush(&mut perf, &mut copy);
        perf.dma_bytes
    };
    // First touches need no fetch with marks: on an all-miss pattern the
    // unmarked cache pays fetch + writeback per line, the marked one
    // only the writeback — about half the traffic.
    let with_marks = run(true, 32);
    let without = run(false, 32);
    assert!(
        with_marks * 100 <= without * 55,
        "marks {} B vs plain {} B",
        with_marks,
        without
    );
}

/// Roofline composition: a compute-heavy region is gated by the slowest
/// CPE, a DMA-heavy region by aggregate bandwidth.
#[test]
fn region_time_switches_between_compute_and_bandwidth() {
    let cg = CoreGroup::new();
    let compute_bound = cg.spawn("test", |ctx| {
        sw26010::simd::meter::simd_ops(&mut ctx.perf, 1_000_000);
        DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, 640, true);
    });
    assert!(
        compute_bound.region.cycles >= 1_000_000,
        "compute-bound region gated by the instruction stream"
    );
    let memory_bound = cg.spawn("test", |ctx| {
        for _ in 0..1000 {
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, 640, true);
        }
        sw26010::simd::meter::simd_ops(&mut ctx.perf, 10);
    });
    // 64 CPEs x 1000 x 640 B = 41 MB at ~29 GB/s ~= 1.4 ms of wall time,
    // far above any single CPE's own cycle count.
    assert!(
        memory_bound.region.cycles > memory_bound.per_cpe[0].cycles,
        "memory-bound region floored by aggregate bandwidth"
    );
    assert_eq!(
        memory_bound.region.dma_bytes,
        64 * 1000 * 640,
        "traffic sums across CPEs"
    );
}

/// The LDM budget is enforced inside spawned kernels.
#[test]
fn ldm_overflow_surfaces_in_kernels() {
    let cg = CoreGroup::with_cpes(1);
    let out = cg.spawn("test", |ctx| {
        let a = ctx.ldm.reserve("half", 40 * 1024).is_ok();
        let b = ctx.ldm.reserve("too much", 40 * 1024).is_err();
        (a, b)
    });
    assert_eq!(out.results[0], (true, true));
}
