//! Disabled-overhead budget for the swprof instrumentation.
//!
//! Every emit site in the stack guards on one thread-local flag read, so
//! with no session active an instrumented kernel must run at the speed
//! it had before the profiler existed. A mutex or an allocation on the
//! disabled path costs 20–100 ns a call in a release build and more in
//! a debug one; the budget is a hard microsecond, so it holds in both
//! and on a loaded box, and fails by orders of magnitude on the day the
//! path grows either.

use std::hint::black_box;
use std::time::Instant;

#[test]
fn a_disabled_emit_call_stays_under_a_microsecond() {
    assert!(!swprof::enabled(), "no session on this thread");
    let t0 = Instant::now();
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
}
