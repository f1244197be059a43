//! Overhead guards for the swtel layer (ISSUE 5 tentpole part 2).
//!
//! Two budgets, enforced as assertions rather than numbers to eyeball:
//!
//! - **Disabled tracing**: every span/send site in `swnet`/`mdsim`/
//!   `swgmx` guards on one thread-local flag read, so with no session
//!   active the instrumentation must cost nanoseconds, like swprof's.
//! - **Always-on flight recorder**: `flight::record` has no off
//!   switch — it runs inside production paths (fault decisions, store
//!   commits, stage charges) unconditionally. Its mutex + array-store
//!   cost is bounded here so it can never quietly grow an allocation
//!   or O(n) walk.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_overhead(c: &mut Criterion) {
    assert!(
        !swtel::enabled(),
        "a tracing session leaked into the bench harness"
    );

    let mut g = c.benchmark_group("swtel_disabled");
    g.bench_function("enabled_check", |b| b.iter(|| black_box(swtel::enabled())));
    g.bench_function("span_noop", |b| b.iter(|| swtel::span(black_box("step"))));
    g.bench_function("send_noop", |b| {
        b.iter(|| swtel::send_from(black_box("halo.f"), 0, 1))
    });
    g.bench_function("tick_noop", |b| b.iter(|| swtel::tick(black_box(7))));
    g.finish();

    let mut g = c.benchmark_group("swtel_flight");
    g.bench_function("record", |b| {
        b.iter(|| swtel::flight::record("stage", "force", black_box(1234), 0))
    });
    g.finish();

    // Hard budget 1: disabled tracing sites. An accidental lock or
    // allocation on the disabled path fails this by orders of
    // magnitude.
    let t0 = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        drop(swtel::span(black_box("step")));
        swtel::tick(black_box(i & 7));
    }
    let per_call = t0.elapsed().as_nanos() as f64 / 2_000_000.0;
    println!("# disabled tracing path: {per_call:.2} ns/call");
    assert!(
        per_call < 1_000.0,
        "disabled tracing costs {per_call:.0} ns/call"
    );

    // Hard budget 2: the always-on flight recorder. One uncontended
    // mutex plus a few word stores; anything worse (allocation, O(n)
    // scan) blows the same budget.
    let t0 = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        swtel::flight::record("stage", "force", black_box(i), 0);
    }
    let per_call = t0.elapsed().as_nanos() as f64 / 1_000_000.0;
    println!("# flight recorder: {per_call:.2} ns/call");
    assert!(
        per_call < 1_000.0,
        "flight recorder costs {per_call:.0} ns/call"
    );
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
